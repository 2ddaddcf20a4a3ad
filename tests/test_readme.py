"""README's examples run as written: the library quick start and every `cyclonet` command line."""

import pathlib
import re
import shlex

import cyclonet
from cyclonet.cli import main

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    (quick_start,) = code_blocks("python")
    exec(compile(quick_start, "README.md", "exec"), {})
    assert capsys.readouterr().out == "SU3\n"  # the class its comment names
    commands = [
        shlex.split(line, comments=True)
        for block in code_blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("cyclonet ")
    ]
    assert commands
    monkeypatch.chdir(tmp_path)  # relative --input and --output paths
    cyclonet.save_network(cyclonet.alternating_pair_network(0.7, alpha=0.3), "net.json")
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
