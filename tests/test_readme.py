"""The README's Library example runs as a doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
