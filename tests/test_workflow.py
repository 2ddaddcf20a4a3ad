"""The CI workflow's `cyclonet` command lines are ones the parser takes, read from the YAML itself."""

import pathlib
import re
import shlex

import pytest
import yaml

from cyclonet import cli

WORKFLOW = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_cyclonet_commands_parse(tmp_path):
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [step for job in doc["jobs"].values() for step in job["steps"] if "run" in step]
    parsed, usage_errors = 0, 0
    for step in steps:
        run = step["run"].replace("$RUNNER_TEMP", str(tmp_path))
        for command in re.split(r"\n|&&", run):
            if not command.strip().startswith("cyclonet "):
                continue
            argv = shlex.split(command)
            argv = argv[: argv.index(">")] if ">" in argv else argv  # stdout redirected to a file
            if "usage error" in step.get("name", ""):
                with pytest.raises(SystemExit) as exc:
                    cli.build_parser().parse_args(argv[1:])
                assert exc.value.code == 2 and f'test "$code" -eq {exc.value.code}' in run
                usage_errors += 1
            else:
                cli.build_parser().parse_args(argv[1:])
                parsed += 1
    assert (parsed, usage_errors) == (9, 1)
