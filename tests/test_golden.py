"""The behaviour contract: the fixed CLI session of golden_session.py must
reproduce tests/golden/ (strings, integers and exit codes exactly, other
numbers within rel_tol 1e-12, abs_tol 1e-15)."""

import json
import os

import pytest

from golden_session import differences, run_session, text_differences
from mtfr.serialize import canonical_json, certificate_from_obj, certificate_to_obj

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """(manifest, run directory) of one run of the golden session."""
    run_dir = str(tmp_path_factory.mktemp("golden") / "session")
    return run_session(run_dir), run_dir


def test_session_matches_reference(session):
    with open(os.path.join(GOLDEN, "manifest.json")) as fh:
        reference = json.load(fh)
    manifest, run_dir = session
    found = differences(reference, os.path.join(GOLDEN, "reference"), manifest, run_dir)
    assert found == [], "\n".join(found)


def test_written_json_reads_back_to_its_own_bytes(session):
    manifest, run_dir = session
    # the in/ inputs are json.dump's spaced text, not the writer's
    written = [p for p in manifest["files"] if p.endswith(".json") and not p.startswith("in/")]
    certificates = [p for p in written if p.endswith("certificate.json")]
    names = ("alt1", "alt2", "wigner_rihaczek")
    assert certificates == [f"{name}/certificate.json" for name in names]
    assert len(written) > len(certificates)
    for path in written:
        with open(os.path.join(run_dir, path)) as fh:
            text = fh.read()
        assert canonical_json(json.loads(text)) == text, path
        if path in certificates:
            back = certificate_from_obj(json.loads(text))
            assert canonical_json(certificate_to_obj(back)) == text, path


def test_text_comparison_rules():
    assert text_differences("t", "PASS 2.842e-14 over 200", "PASS 2.843e-14 over 200") == []
    assert text_differences("t", '{"x":0.5}', '{"x":0.50000000000000011}') == []
    assert text_differences("t", '{"x":0.5}', '{"x":0.5000001}') != []
    assert text_differences("t", '{"points":200}', '{"points":201}') != []
    assert text_differences("t", '"chirp_sign":"-P22"', '"chirp_sign":"+P22"') != []
