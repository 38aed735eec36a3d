"""No loss, special function, opinion function or ``Tensor`` method that
only the tests run.

Each public function of ``losses``, ``special`` and ``opinions``, and each
``Tensor`` method or property that is not an operator, must be named
somewhere in ``src/mvtrust`` (a call, an attribute or an import), be
exported in ``mvtrust.__all__``, or be a target that ``perfbench/tracing.py``
wraps.  Code that none of these reach is dead to the package, however well
tested it is.
"""

import ast
import inspect
from pathlib import Path

import mvtrust
from mvtrust import losses, opinions, special
from mvtrust.autodiff import Tensor
from test_tracing import _load_tracing

SRC = Path(mvtrust.__file__).parent


def _names_used_in_src():
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _checked():
    """(label, name, object) of every function and method this test covers."""
    for module in (losses, special, opinions):
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                yield f"{module.__name__}.{name}", name, obj
    for name, obj in vars(Tensor).items():
        if not name.startswith("__") and (inspect.isfunction(obj) or isinstance(obj, property)):
            yield f"Tensor.{name}", name, obj


def test_every_function_has_a_use_outside_the_tests():
    checked = list(_checked())
    labels = {label for label, _, _ in checked}
    assert {"mvtrust.losses.h1_loss", "mvtrust.special.polygamma_pass",
            "mvtrust.opinions.conflict_degree", "Tensor.relu", "Tensor.shape"} <= labels
    used = _names_used_in_src()
    exported = {getattr(mvtrust, name) for name in mvtrust.__all__}
    traced = {owner.__dict__[attr] for _, owner, attr in _load_tracing().TARGETS}
    dead = [label for label, name, obj in checked
            if name not in used and obj not in exported and obj not in traced]
    assert not dead, f"no caller in src/, not exported, not traced: {dead}"
