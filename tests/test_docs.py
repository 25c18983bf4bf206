"""The README's cache table lists exactly the package's memoised
functions, and its command line examples run."""

import re
import shlex
from pathlib import Path

from hecke_ribbon import cli

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER_WORDS = (
    "zero one two three four five six seven eight nine ten eleven twelve thirteen "
    "fourteen fifteen sixteen seventeen eighteen nineteen twenty"
).split()


def _cache_table() -> tuple[str, list[str]]:
    """The count word before the table, and the names in its first column."""
    text = README.read_text()
    count = re.search(r"The package memoises (\w+) functions", text).group(1)
    table = text.split("| cache | key | bounded by |\n| --- | --- | --- |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()
    return count, [re.match(r"\| `([\w.]+)` \|", row).group(1) for row in rows]


def test_readme_cache_table_lists_every_cache(package_caches):
    count, names = _cache_table()
    assert sorted(names) == sorted(package_caches)
    assert len(names) == len(set(names))
    assert count == NUMBER_WORDS[len(package_caches)]


def test_readme_command_examples_run(capsys):
    block = README.read_text().split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("hecke-ribbon ") for line in lines)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
