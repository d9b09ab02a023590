"""Byte identity of the CLI's published tables.

tests/fixtures/published_digests.json holds the SHA-1 of `vfreps count
--kind all --by dimvector` in each of the four formats, of `vfreps count
--kind all --by total --format json` and of `vfreps epoly --format json`
for psl2z D=12, sl2z D=8, gl2z D=10 and pgl2z D=12.  A change to the scalar representation, the series
stages or the renderer that alters one byte of these tables fails here,
and so does output that depends on the process's string-hash seed.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vfreps
from vfreps import cli

DIGESTS = json.loads((Path(__file__).parent / "fixtures" / "published_digests.json").read_text())


def _argv(name, D, by="dimvector", fmt="json"):
    return ["count", "--group", name, "--max-dim", str(D), "--kind", "all", "--by", by, "--format", fmt]


def _sha1(capsys, argv):
    assert cli.main(argv) == 0
    return hashlib.sha1(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS["tables"]))
def test_published_table_output_is_byte_identical(name, capsys):
    entry = DIGESTS["tables"][name]
    assert _sha1(capsys, _argv(name, entry["D"])) == entry["sha1"]


@pytest.mark.parametrize("fmt", ["text", "csv", "latex"])
@pytest.mark.parametrize("name", sorted(DIGESTS["tables"]))
def test_published_table_text_csv_and_latex_are_byte_identical(name, fmt, capsys):
    entry = DIGESTS[fmt][name]
    assert _sha1(capsys, _argv(name, entry["D"], fmt=fmt)) == entry["sha1"]


@pytest.mark.parametrize("name", sorted(DIGESTS["by_total"]))
def test_published_per_total_output_is_byte_identical(name, capsys):
    entry = DIGESTS["by_total"][name]
    assert _sha1(capsys, _argv(name, entry["D"], "total")) == entry["sha1"]


@pytest.mark.parametrize("name", sorted(DIGESTS["epoly"]))
def test_published_epoly_output_is_byte_identical(name, capsys):
    entry = DIGESTS["epoly"][name]
    argv = ["epoly", "--group", name, "--max-dim", str(entry["D"]), "--format", "json"]
    assert _sha1(capsys, argv) == entry["sha1"]


def test_output_does_not_depend_on_the_hash_seed():
    src = str(Path(vfreps.__file__).resolve().parents[1])
    for by in ("dimvector", "total"):
        outs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-m", "vfreps.cli", *_argv("psl2z", 8, by)],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            outs.append(run.stdout)
        assert outs[0] == outs[1] and outs[0].startswith("{"), by
