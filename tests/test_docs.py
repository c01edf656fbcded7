import re
from pathlib import Path

import symrank

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    # so a cut to the public API cannot break it unseen
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_every_name_imported_from_the_package_root_is_exported():
    imported = {}
    for path in ("README.md", ".github/workflows/tests.yml"):
        groups = re.findall(r"from\s+symrank\s+import\s+(\([^)]*\)|[\w, ]+)",
                            (ROOT / path).read_text())
        imported[path] = {name for group in groups for name in re.findall(r"\w+", group)}
        missing = imported[path] - set(symrank.__all__)
        assert not missing, (path, sorted(missing))
    # README's parenthesized import is read across its lines
    assert {"Grid", "zoo_get"} <= imported["README.md"]
