"""The docs-vs-CLI drift check (tools/check_docs.py).

The checker itself is exercised against injected stale content, and the
repository's actual docs are asserted clean — so a PR that renames a
flag without updating the docs fails tier-1, not just the CI step.
"""

import importlib.util
import pathlib
import re

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


@pytest.fixture(scope="module")
def parser():
    return build_parser()


def _check(markdown, parser):
    return check_docs.check_text(markdown, parser, "doc.md")


def test_repo_docs_have_no_stale_commands(parser):
    problems, total = check_docs.check_files(
        check_docs.default_files(str(ROOT)), parser)
    assert problems == []
    assert total >= 6  # the extractor must actually be finding commands


def _python_blocks(markdown):
    """The bodies of every ```python fenced block, in order."""
    return re.findall(r"^```python\n(.*?)^```$", markdown, re.S | re.M)


def test_readme_python_blocks_run(capsys):
    """README's library examples run as printed: the quickstart prints
    its two ratios and the MAC-only example delivers to B."""
    blocks = _python_blocks((ROOT / "README.md").read_text())
    assert len(blocks) == 2
    outputs = []
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
        outputs.append(capsys.readouterr().out.splitlines())
    quickstart, mac_only = outputs
    assert len(quickstart) == 2
    assert all(0.0 <= float(line) <= 1.0 for line in quickstart)
    assert mac_only == ["B got hello"]


def test_valid_commands_pass(parser):
    text = """
```bash
python -m repro figure fig7 --scale medium --workers 8 --csv out.csv
python -m repro campaign run --out store/ --scale paper --protocols rmac,bmmm
python -m repro campaign status --out store/
python -m repro figure fig9 --from store/
```
"""
    problems, total = _check(text, parser)
    assert problems == [] and total == 4


def test_injected_stale_flag_fails(parser):
    text = """
```bash
python -m repro figure fig7 --no-such-flag
```
"""
    problems, _ = _check(text, parser)
    assert len(problems) == 1
    assert "--no-such-flag" in problems[0] and "doc.md:3" in problems[0]


def test_unknown_subcommand_fails(parser):
    problems, _ = _check("```bash\npython -m repro frobnicate --fast\n```",
                         parser)
    assert problems and "frobnicate" in problems[0]


def test_unknown_nested_subcommand_fails(parser):
    problems, _ = _check(
        "```bash\npython -m repro campaign resume --out d\n```", parser)
    assert problems and "resume" in problems[0]


def test_invalid_positional_choice_fails(parser):
    problems, _ = _check("```bash\npython -m repro figure fig99\n```", parser)
    assert problems and "fig99" in problems[0]


def test_backslash_continuations_and_comments(parser):
    text = """
```bash
python -m repro figure fig9 --scale medium --workers 8 \\
    --progress          # live per-run lines
```
"""
    problems, total = _check(text, parser)
    assert problems == [] and total == 1


def test_text_outside_fences_is_ignored(parser):
    text = "Run `python -m repro bogus --whatever` for details.\n"
    problems, total = _check(text, parser)
    assert problems == [] and total == 0


def test_flag_values_are_not_mistaken_for_subcommands(parser):
    # "run" here is a value of --csv, not the run subcommand.
    problems, total = _check(
        "```bash\npython -m repro figure fig7 --csv run\n```", parser)
    assert problems == [] and total == 1


# ---------------------------------------------------------------------------
# Python-reference resolution (the importlib half of the checker)
# ---------------------------------------------------------------------------

def _check_refs(markdown):
    return check_docs.check_python_refs(markdown, "doc.md")


def test_valid_python_refs_resolve():
    text = """
A module: `repro.experiments.farm`. An attribute walked from it:
`repro.experiments.store.config_hash`, and a nested one:
`repro.analysis.validation`.

```python
from repro.experiments import CampaignFarm
status = repro.experiments.farm.farm_status("store")
```
"""
    problems, total = _check_refs(text)
    assert problems == []
    assert total == 5   # the import line's `repro.experiments` counts too


def test_renamed_attribute_is_flagged():
    problems, total = _check_refs(
        "See `repro.experiments.store.merge_store` for details.\n")
    assert total == 1 and len(problems) == 1
    assert "merge_store" in problems[0] and "doc.md:1" in problems[0]


def test_missing_module_is_flagged():
    problems, _ = _check_refs("`repro.no_such_module.thing`\n")
    assert problems and "repro.no_such_module.thing" in problems[0]


def test_call_parens_and_trailing_dot_are_stripped():
    text = ("```python\n"
            "repro.experiments.store.config_hash(config)\n"
            "```\n"
            "The package is `repro.experiments.` here.\n")
    problems, total = _check_refs(text)
    assert problems == [] and total == 2


def test_prose_outside_backticks_is_not_scanned():
    # A changelog may legitimately discuss names that no longer exist.
    problems, total = _check_refs(
        "We removed repro.experiments.old_runner in PR 4.\n")
    assert problems == [] and total == 0


def test_repo_docs_have_no_stale_python_refs():
    for path in check_docs.default_files(str(ROOT)):
        with open(path) as fh:
            problems, _ = check_docs.check_python_refs(fh.read(), str(path))
        assert problems == []
