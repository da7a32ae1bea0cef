"""Every name the benchmark's layer tracer wraps still exists in the package.

``perfbench/tracer.py`` wraps library functions by module and attribute
path; a refactor that drops or renames one of them crashes every traced
benchmark pass.  This loads the tracer file unchanged and resolves each
of its targets here instead.
"""

import importlib.util
from pathlib import Path

import pytest

import hierground
from hierground import cli  # noqa: F401  (the benchmark imports it before installing)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolve(module_name: str, path: str):
    owner = getattr(hierground, module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "module_name, path", [(module_name, path) for module_name, path, _ in tracer.TARGETS]
)
def test_target_resolves(module_name, path):
    assert callable(resolve(module_name, path))


@pytest.mark.parametrize("module_name, attr, name", tracer.ALIASES)
def test_alias_is_a_copy_of_its_target(module_name, attr, name):
    target_module, _, target_path = name.partition(".")
    assert resolve(module_name, attr) is resolve(target_module, target_path)


def test_install_and_uninstall_restore_every_binding():
    before = {(m, p): resolve(m, p) for m, p, _ in tracer.TARGETS}
    before.update({(m, a): resolve(m, a) for m, a, _ in tracer.ALIASES})
    t = tracer.Tracer()
    t.install(hierground)
    try:
        assert all(resolve(m, p) is not fn for (m, p), fn in before.items())
    finally:
        t.uninstall()
    assert all(resolve(m, p) is fn for (m, p), fn in before.items())
