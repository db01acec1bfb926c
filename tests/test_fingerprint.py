"""The fast lines of ``tools/fingerprint.py`` match ``tools/fingerprints.txt``.

``scenes`` hashes the scene files of 400 generated scenes, ``clouds`` the
sphere clouds of their obstacles and ``kernels`` every obstacle's query
kernel at seeded probe points.  The other lines run thousands of trials and
stay with the tool.

The scenes and clouds are built in scalar float arithmetic, so a seed names
the same scene on every CPU: no numpy dot product, matrix product or
``linalg`` call, whose OpenBLAS kernel is picked per CPU and rounds per
kernel, may enter their bits.
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import geopf

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


# Scene documents and cloud records of every class at a few seeds, hashed.
_SCENES_AND_CLOUDS = """
import hashlib, json
from geopf import SceneClass, SpherizationParams, generate
from geopf.baselines import sphere_cloud
from geopf.scenes import scene_to_document
h = hashlib.sha256()
for seed in range(3):
    for scene_class in SceneClass:
        scene = generate(scene_class, seed)
        h.update(json.dumps(scene_to_document(scene), sort_keys=True).encode())
        for obs in scene.obstacles:
            for record in sphere_cloud(obs.primitive, SpherizationParams()):
                h.update("|".join(map(float.hex, record)).encode())
"""


def _dynamic_openblas() -> bool:
    """Whether numpy runs an OpenBLAS that picks its kernels per CPU, which
    ``OPENBLAS_CORETYPE`` then overrides."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:
        return False
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy has no DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_scenes_and_clouds_do_not_depend_on_the_blas_kernel(coretype):
    here = {}
    exec(_SCENES_AND_CLOUDS, here)
    src = str(pathlib.Path(geopf.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    there = subprocess.run(
        [sys.executable, "-c", _SCENES_AND_CLOUDS + "print(h.hexdigest())"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert there.stdout.strip() == here["h"].hexdigest()


@pytest.mark.parametrize("module", ["scenes", "baselines"])
def test_scene_and_cloud_code_runs_no_blas(module):
    tree = ast.parse(pathlib.Path(geopf.__file__).with_name(f"{module}.py").read_text())
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in ("dot", "linalg"):
            sites.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            sites.extend((node.lineno, n) for n in names if "linalg" in n or n == "dot")
    assert sites == []
