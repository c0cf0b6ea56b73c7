"""The README's Library example runs as a doctest, and its module line
count is the line count of ``src/lgdual/*.py``."""

import doctest
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_example():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    examples = [b for b in blocks if b.lstrip().startswith(">>>")]
    assert len(examples) == 1, "expected one fenced >>> block in README.md"
    return examples[0]


def test_readme_library_example():
    block = library_example()
    # the witness is part of the documented behaviour: a change to the
    # search order changes it
    assert "((0, 2, 1), ((-1, 1), (1, 0)))" in block
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0 and failed == 0


def test_readme_counts_the_module_lines():
    count = re.search(r"Modules \(([\d,]+) lines in all", README.read_text(encoding="utf-8"))
    # as `cat src/lgdual/*.py | wc -l` counts them: newline characters
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "lgdual").glob("*.py"))
    assert int(count.group(1).replace(",", "")) == lines
