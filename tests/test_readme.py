"""The README's library tour runs as written against the package exports."""

import re
from pathlib import Path

from qsm import MapKind

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_source() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README library tour has no python block"
    return match.group(1)


def test_library_tour_runs():
    namespace: dict = {}
    exec(compile(_tour_source(), str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.kind is MapKind.UNITARY_CONJ
    assert result.residual <= 1e-12
