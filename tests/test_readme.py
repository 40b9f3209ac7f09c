"""Every ```python block of README.md runs as written, and each command the
README shows with its output prints that output byte for byte."""
import re
import shlex
from pathlib import Path

import pytest

import leakexp.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block, tmp_path, monkeypatch):
    # Blocks may write files; they write them into a fresh directory.
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


# A shown command: a `$ leakexp ...` line of a ```sh block and the lines it
# prints, up to the next blank line or the closing fence.
SHOWN = re.findall(r"^\$ leakexp (.*)\n((?:[^$`\n].*\n)+)", README.read_text(), re.M)


def test_readme_shows_leakage_output():
    assert [args for args, _ in SHOWN] == ["leakage --matrix parity.txt --channel bec:0.4"]


@pytest.mark.parametrize("args, shown", SHOWN, ids=[args for args, _ in SHOWN])
def test_readme_shown_output_is_printed(args, shown, tmp_path, monkeypatch, capsys):
    # parity.txt as the block's `printf '1 2\n11\n' > parity.txt` writes it.
    assert "$ printf '1 2\\n11\\n' > parity.txt\n" in README.read_text()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "parity.txt").write_text("1 2\n11\n")
    assert cli.main(shlex.split(args)) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (shown, "")
