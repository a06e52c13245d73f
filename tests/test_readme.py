import importlib
import re
from pathlib import Path

import walksparse


def test_public_api_table_lists_exactly_all():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Public API", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for module, cells in re.findall(r"^\| `(\w+)` \| (.+) \|$", table, flags=re.M):
        names = re.findall(r"`(\w+)`", cells)
        assert all(hasattr(importlib.import_module(f"walksparse.{module}"), n) for n in names), module
        listed.update(names)
    assert listed == set(walksparse.__all__) - {"__version__"}
