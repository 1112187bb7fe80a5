"""Golden corpus: every recorded CLI invocation must reproduce its bytes.

``golden_cli.json`` lists argv vectors with their exit code and exact
stdout.  It is test data: edit it by hand only when an output change is
intended.  The ``verify --format json`` entry omits ``meta.generated_at``,
the one field that differs between runs.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from polycauchy.cli import build_parser, main

CORPUS = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))
STAMP = re.compile(r'\n *"generated_at": "[^"]*"')


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: " ".join(e["argv"]))
def test_golden_replay(capsys, entry):
    code = main(entry["argv"])
    out = capsys.readouterr().out
    if entry["argv"][0] == "verify" and "json" in entry["argv"]:
        out, stamps = STAMP.subn("", out)
        assert stamps == 1
    assert code == entry["exit"]
    assert out == entry["stdout"]


def test_corpus_covers_every_subcommand_and_format():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    expected = set()
    for name, sub in subparsers.choices.items():
        (fmt,) = [a for a in sub._actions if a.dest == "format"]
        expected |= {(name, choice) for choice in fmt.choices}
    covered = {(e["argv"][0], e["argv"][e["argv"].index("--format") + 1]) for e in CORPUS}
    assert covered == expected
