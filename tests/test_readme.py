"""The README's Python examples run as written, and the schema and exit
codes it repeats are the ones the code declares.

Every fenced ```python block of README.md runs in order, in one
namespace, so a later block may use the names an earlier one defined.
"""

import re
from pathlib import Path

from sllgfem.cli import EXITS
from sllgfem.scheme import DIAGNOSTIC_COLUMNS

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    assert blocks
    monkeypatch.setenv("SLLGFEM_WORKERS", "1")
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"),
             namespace)


def test_readme_diagnostics_schema_is_the_declared_one():
    schema = ",".join(DIAGNOSTIC_COLUMNS)
    assert f"`{schema}`" in README.read_text()


def test_readme_exit_table_lists_the_cli_exit_codes():
    # README's table documents every code: 0 and 2, which the CLI returns
    # without an exception, and each code of the CLI's table
    codes = re.findall(r"^\| (\d+) +\|", README.read_text(), flags=re.M)
    assert sorted(map(int, codes)) == sorted(
        {0, 2} | {code for code, _ in EXITS.values()})
