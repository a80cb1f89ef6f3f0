"""The library quickstart in README.md runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_quickstart_runs(capsys):
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], README, "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("converged ")
    assert lines[1].startswith("active groups: SelectedGroups(genetic=(")
    assert namespace["probs"].shape == namespace["labels"].shape == (300,)
