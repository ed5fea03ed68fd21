"""Outputs stay byte-identical to the digests recorded in golden.json.

Wall-clock fields are masked; ``golden.py`` says what each section runs and
how to rewrite the file after a deliberate change.
"""

import json

import pytest

import golden

RECORDED = json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize("section", list(golden.SECTIONS))
def test_outputs_match_recorded_digests(section, tmp_path):
    want = RECORDED["digests"].get(section, {})
    got = golden.SECTIONS[section](tmp_path)
    problems = [f"{name} changed" for name in sorted(want.keys() & got.keys())
                if want[name] != got[name]]
    problems += [f"{name} not written" for name in sorted(want.keys() - got.keys())]
    problems += [f"{name} has no recorded digest" for name in sorted(got.keys() - want.keys())]
    if problems:
        message = f"{section}: {len(problems)} file(s) differ: " + "; ".join(problems[:10])
        if golden.versions() != RECORDED["versions"]:
            message += (f". The digests were made with {RECORDED['versions']}, "
                        f"this run has {golden.versions()}")
        pytest.fail(message)
