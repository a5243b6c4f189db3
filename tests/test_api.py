"""The package's top-level API is what README's Library section documents."""

import re
from pathlib import Path

import numpy as np

import spiralbounds

README = Path(__file__).resolve().parent.parent / "README.md"

API = {
    "SplineInput", "analyze", "build_region", "simple_region",
    "check_containment", "rounding_experiment",
    "Arc", "Biarc", "curve_eval",
    "SpiralBoundsError", "InputError", "DataError", "ClassificationError",
    "MissingTangentsError",
    "__version__",
}


def _library_section():
    text = README.read_text()
    return text[text.index("## Library"):]


def test_all_is_the_documented_api():
    assert sorted(spiralbounds.__all__) == sorted(API)
    for name in API:
        assert hasattr(spiralbounds, name)
    # README lists every exported name
    listed = set(re.findall(r"`(\w+)`", _library_section().split("```")[0]))
    assert API <= listed


def test_readme_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    polyline = np.array([[0.0, 0.0], [1.0, 0.1], [2.0, 0.5], [3.0, 1.4]])
    exec(code, {"my_dense_polyline": polyline})
    width, verdict = capsys.readouterr().out.splitlines()
    assert float(width) > 0.0
    assert verdict.split()[0] == "True"
