"""Golden output digests of ``leocp all`` on the desk config.

The fixture holds the sha256 of every file the pipeline writes, except
``effective_config.json`` (an echo of the input). A refactor that must
keep outputs byte-identical proves it against these digests, not only
run to run. When an output is meant to change, record the new digests
from the run below and say why in the commit.
"""
import hashlib
import json
import os

from leocp.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DIGESTS = os.path.join(os.path.dirname(__file__), "fixtures", "desk_all_digests.json")
UNDIGESTED = {"effective_config.json"}


def output_digests(out_dir):
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name in UNDIGESTED:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_desk_all_outputs_match_golden_digests(tmp_path):
    config = os.path.join(ROOT, "configs", "desk.json")
    assert main(["all", "--config", config, "--out", str(tmp_path)]) == 0
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    got = output_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    mismatched = [name for name in expected if got[name] != expected[name]]
    assert not mismatched, f"outputs differ from the golden digests: {mismatched}"
