"""The README's examples run as written: each `$ classgen ...` transcript
prints exactly the output shown, and the Library block prints the values
its comments state."""

import re
import shlex
from pathlib import Path

import pytest

from classgen.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()
# (language, body) of every fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def _transcripts():
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            if chunk.startswith("$ classgen "):
                command, _, output = chunk.partition("\n")
                yield pytest.param(shlex.split(command)[2:], output, id=command[2:])


TRANSCRIPTS = list(_transcripts())


def test_readme_shows_one_transcript_per_subcommand():
    assert sorted(param.values[0][0] for param in TRANSCRIPTS) == ["certify", "gens", "order"]


@pytest.mark.parametrize("argv,output", TRANSCRIPTS)
def test_readme_transcript_is_the_output(capsys, argv, output):
    assert main(argv) == 0
    assert capsys.readouterr().out == output


def test_readme_library_block_prints_what_its_comments_state(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(code, {})
    stated = [line.partition("#")[2].strip().strip('"')
              for line in code.splitlines() if line.startswith("print(")]
    assert stated == ["Sp, q odd, n > 1", "51840", "PASS"]
    assert capsys.readouterr().out.splitlines() == stated
