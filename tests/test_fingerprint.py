"""The fast lines of ``tools/fingerprint.py`` match ``tools/fingerprints.txt``.

``scenes`` hashes the scene files of 400 generated scenes, ``clouds`` the
sphere clouds of their obstacles and ``kernels`` every obstacle's query
kernel at seeded probe points.  The other lines run thousands of trials and
stay with the tool.
"""

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).parents[1] / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", _TOOL)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


@pytest.mark.parametrize(
    "name, digest",
    [
        ("scenes", fingerprint.scene_hash),
        ("clouds", fingerprint.cloud_hash),
        ("kernels", fingerprint.kernel_hash),
    ],
)
def test_fast_fingerprint_lines_are_the_recorded_ones(name, digest):
    expected, note = fingerprint.read_expected()
    if note:
        pytest.skip(note)
    assert f"{name:<11} {digest()}" == expected[name]
